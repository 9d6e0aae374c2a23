"""Tests of the benchmark's own parts: the numpy fidelity reference, the
mpmath rate oracle, the tracer and the command's contract.

  PYTHONPATH=src python -m pytest -q benchmarks

These live outside the tier-1 testpaths, so the main suite does not run them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import reference
import run
import tracing
import workloads
from polspin import params, rate, sweep
from polspin.config import load_config

ROOT = Path(__file__).resolve().parent.parent
D = oracle.DESIGN


def _ref(T_V, R_H, coupling, cooperativity):
    return workloads._ref_fidelity(T_V, R_H, coupling, cooperativity)


# -- numpy fidelity reference ------------------------------------------------

def test_reference_ideal_device_is_perfect():
    f = reference.fidelity_from_reflections(-1.0, -1.0, 1.0, -1.0)
    assert f == pytest.approx(1.0, abs=1e-15)


def test_reference_mean_v_reflectance_criterion_1():
    assert abs(reference.mean_v_reflectance(D.coupling, D.cooperativity) - 0.356) <= 0.002


def test_reference_matches_polspin_map_and_nan_cells():
    cfg = load_config()
    tv_ax, rh_ax = sweep.SweepAxis("pdr.T_V", 0.5, 1.0, 21), sweep.SweepAxis("pdr.R_H", 0.0, 0.6, 21)
    res = sweep.sweep_fidelity_pdr(tv_ax, rh_ax, cfg.cavity, cfg.polarizer, r_cav_h=cfg.r_cav_h)
    ref, invalid = _ref(tv_ax.values()[:, None], rh_ax.values()[None, :],
                        D.coupling, D.cooperativity)
    assert invalid.any() and (~invalid).any()
    assert len(reference.mismatches(res.values, ref)) == 0


def test_reference_rejects_a_cell_perturbed_by_1e9():
    ref, _ = _ref(np.linspace(0.9, 1.0, 5), 0.15, D.coupling, D.cooperativity)
    wrong = ref.copy()
    wrong[2] += 1e-9
    assert [tuple(i) for i in reference.mismatches(wrong, ref)] == [(2,)]
    nan_moved = ref.copy()
    nan_moved[0] = np.nan
    assert len(reference.mismatches(nan_moved, ref)) == 1


def test_reference_flags_what_polspin_rejects_as_non_passive():
    # with the design reflector, |r_V_off| reaches 1.19 at full coupling
    _, invalid = _ref(D.T_V, D.R_H, 1.0, D.cooperativity)
    assert bool(invalid)
    cfg = load_config()
    with pytest.raises(params.ValidationError):
        from polspin import device
        device.transfer_fidelity(params.PdrParams.from_power(D.T_V, D.R_H), cfg.polarizer,
                                 params.CavityParams.from_ratios(1.0, D.cooperativity))


# -- mpmath rate oracle ------------------------------------------------------

def test_oracle_ideal_device_is_perfect():
    # every attempt either clicks or is lost before the spin
    with oracle.mpmath.workdps(oracle.DPS):
        pd = oracle.mpmath.mpf(3) / 10
        ideal = oracle.Partition(p_det=pd, p_lost=1 - pd, p_e=oracle.mpmath.mpf(0))
    for n in (1, 2, 10, 10**6):
        assert abs(oracle.protocol_fidelity(n, ideal, 1.0) - 1) < 1e-50


def test_oracle_mean_v_reflectance_criterion_1():
    assert abs(float(oracle.mean_v_reflectance(D.coupling, D.cooperativity)) - 0.356) <= 0.002


def test_oracle_partition_sums_to_one_and_matches_polspin():
    cfg = load_config(overrides=["link.eta_link=0.001"])
    part = oracle.partition(1e-3)
    probs = rate.attempt_probabilities(cfg.pdr, cfg.polarizer, cfg.link)
    assert part.p_det + part.p_lost + part.p_e == 1
    assert float(part.p_det) == pytest.approx(probs.p_det, rel=1e-13)
    assert float(part.p_e) == pytest.approx(probs.p_e, rel=1e-9)


@pytest.fixture(scope="module")
def at_30db():
    cfg = load_config(overrides=["link.eta_link=0.001"])
    res = rate.transfer_rate(cfg.pdr, cfg.polarizer, cfg.cavity, cfg.link, cfg.timing, 0.95)
    f0 = float(_ref(D.T_V, D.R_H, D.coupling, D.cooperativity)[0])
    return res, oracle.partition(1e-3), f0


def test_oracle_boundary_accepts_n_max_and_rejects_off_by_one(at_30db):
    res, part, f0 = at_30db
    n = oracle.max_attempts(0.95, part, f0)
    assert n == res.n_max
    assert oracle.boundary_holds(n, 0.95, part, f0)
    assert not oracle.boundary_holds(n + 1, 0.95, part, f0)
    assert not oracle.boundary_holds(n - 1, 0.95, part, f0)


def test_oracle_rate_and_times_match_polspin_at_30db(at_30db):
    res, part, f0 = at_30db
    assert float(oracle.rate(res.n_max, part)) == pytest.approx(res.rate, rel=1e-9)
    assert float(oracle.rate(res.n_max, part)) >= 1e3  # acceptance criterion 6
    total = res.t_failures + res.t_success
    assert float(oracle.expected_time(res.n_max, part)) == pytest.approx(total, rel=1e-9)
    assert float(oracle.sequence_error(res.n_max, part)) == pytest.approx(res.p_error, rel=1e-8)


def test_oracle_rate_stays_below_plob():
    for db in (10, 30, 60, 90, 120):
        eta = 10.0 ** (-db / 10)
        part = oracle.partition(eta)
        assert oracle.rate(10**6, part) < oracle.repeaterless_bound(eta)


# -- tracer ------------------------------------------------------------------

def test_tracer_times_calls_between_layers_and_restores_them():
    from polspin import device
    cfg = load_config()
    original = rate.transfer_fidelity
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rate.transfer_fidelity is not original
        tracer.enabled = True
        with tracer.round():
            rate.transfer_rate(cfg.pdr, cfg.polarizer, cfg.cavity, cfg.link, cfg.timing, 0.95)
            with pytest.raises(params.ValidationError):
                device.transfer_fidelity(params.PdrParams.from_power(D.T_V, D.R_H),
                                         cfg.polarizer,
                                         params.CavityParams.from_ratios(1.0, D.cooperativity))
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert rate.transfer_fidelity is original
    spans = tracer.arrays()
    out = tracing.summarize(tracer.names, spans, rounds=1)
    assert out["device.transfer_fidelity.calls"] == 2
    assert out["device.evolve_joint_state.calls"] == 4
    assert out["device.herald_spin_state.calls"] == 8
    assert out["params.PdrParams.from_power.calls"] == 1
    assert out["device.transfer_fidelity.rejected"] == 1
    assert out["rate.max_attempts.calls"] == 1
    assert out["rate.max_attempts.evals_per_call"] > 1
    # self times partition the round
    total_self = sum(v for k, v in out.items() if k.endswith(".self_s"))
    round_dur = spans["end"][0] - spans["start"][0]
    bench_self = out["share.bench"] * round_dur
    assert total_self + bench_self == pytest.approx(round_dur, rel=1e-9)
    assert set(out) | {"trace.overhead_s"} == set(tracing.metric_units())


# -- the command's contract --------------------------------------------------

def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.metric_units())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "rate-curves",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
