"""The benchmark's traced run wraps polspin functions by name
(benchmarks/tracing.py, TRACED), and its workloads call polspin's public
functions (benchmarks/workloads.py). Every name it lists must still exist,
and every workload must still run and pass its checks, or `benchmarks/run.py`
breaks when the package is refactored."""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
TRACING = BENCH / "tracing.py"
# the workloads whose checks compare with the mpmath oracle (benchmarks/oracle.py)
ORACLE_CHECKED = ("rate-curves", "mc-low-loss", "mc-high-loss")

with pytest.MonkeyPatch.context() as mp:  # workloads imports its sibling modules
    mp.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module,qualname", tracing.TRACED,
                         ids=[f"{m}.{q}" for m, q in tracing.TRACED])
def test_traced_name_resolves(module, qualname):
    obj = importlib.import_module(f"polspin.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_tracer_installs_and_restores():
    from polspin import device, rate

    original = rate.transfer_fidelity
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rate.transfer_fidelity is not original
        assert device.transfer_fidelity is not original
    finally:
        tracer.uninstall()
    assert rate.transfer_fidelity is original
    assert device.transfer_fidelity is original


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_round(name, tmp_path, monkeypatch):
    """One round of the workload and its checks, as the benchmark's worker
    makes them: no problem found and no failed operation."""
    monkeypatch.syspath_prepend(str(BENCH))
    workload = workloads.WORKLOADS[name](1, tmp_path)
    workload.observe(0, workload.round(0))
    if name in ORACLE_CHECKED:
        pytest.importorskip("mpmath")
    workload.verdict()
    assert workload.problems == []
    assert workload.failed_per_round() == 0
