"""The benchmark's traced run wraps polspin functions by name
(benchmarks/tracing.py, TRACED). Every name it lists must still exist, or
`benchmarks/run.py --trace 1` breaks when the package is refactored."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


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
