"""Span tracer that wraps polspin's public functions from outside the package.

Each wrapped call records one span: name, start, end, parent span and
whether it raised. Spans live in flat in-memory arrays and are written out
once, when the run ends. A wrapped function is replaced under every name
that refers to it in any loaded polspin module, so calls from one layer
into another (rate -> device, sweep -> rate, ...) are timed too. Class
methods are replaced on their class.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from typing import Any, Callable, Iterator

import numpy as np

# (module, qualified name) of every traced function; the span name is
# "<module>.<qualified name>".
TRACED: tuple[tuple[str, str], ...] = (
    ("params", "PdrParams.from_power"),
    ("params", "CavityParams.from_ratios"),
    ("device", "cavity_reflection"),
    ("device", "effective_reflections"),
    ("device", "evolve_joint_state"),
    ("device", "herald_spin_state"),
    ("device", "transfer_fidelity"),
    ("rate", "attempt_probabilities"),
    ("rate", "max_attempts"),
    ("rate", "protocol_fidelity"),
    ("rate", "sequence_error_probability"),
    ("rate", "success_probability"),
    ("rate", "expected_failure_time"),
    ("rate", "expected_success_time"),
    ("rate", "repeaterless_bound"),
    ("rate", "transfer_rate"),
    ("montecarlo", "simulate_trial"),
    ("montecarlo", "simulate_rate"),
    ("sweep", "sweep_fidelity_pdr"),
    ("sweep", "sweep_fidelity_cavity"),
    ("sweep", "sweep_rate_vs_loss"),
    ("config", "load_config"),
    ("cli", "write_table"),
)
LAYERS = ("params", "device", "rate", "montecarlo", "sweep", "config", "cli")
ROUND = "bench.round"

# Result values worth keeping per span: the n_max search end and the
# Monte Carlo attempt count.
_VALUE_OF: dict[str, Callable[[Any], float]] = {
    "rate.max_attempts": lambda r: float(r.cap_reached),
    "montecarlo.simulate_trial": lambda r: float(r.attempts_used),
}


class Tracer:
    """Records spans while enabled; disabled wrappers only pass through."""

    def __init__(self) -> None:
        self.names: list[str] = [ROUND] + [f"{m}.{q}" for m, q in TRACED]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.value = array("d")
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.raised.append(0)
        self.value.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def round(self) -> Iterator[None]:
        """One span around a whole workload round, the parent of every
        top-level call the round makes."""
        idx = self._open(0) if self.enabled else -1
        try:
            yield
        finally:
            if idx >= 0:
                self._close(idx)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid = self.names.index(name)
        value_of = _VALUE_OF.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] = 1
                raise
            finally:
                tracer._close(idx)
            if value_of is not None:
                tracer.value[idx] = value_of(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        """Replace every traced function in every loaded polspin module."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "polspin" or k.startswith("polspin."))]
        for mod_name, qual in TRACED:
            owner = sys.modules[f"polspin.{mod_name}"]
            name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                self._patch(cls, meth, raw,
                            classmethod(self._wrap(raw.__func__, name)))
                continue
            original = getattr(owner, qual)
            wrapped = self._wrap(original, name)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, attr, original, wrapped)

    def _patch(self, target: Any, attr: str, original: Any, new: Any) -> None:
        self._patches.append((target, attr, original))
        setattr(target, attr, new)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def summarize(names: list[str], spans: dict[str, np.ndarray], rounds: int) -> dict[str, float]:
    """Per-round calls and self time of each traced function, the derived
    counters, and each layer's share of the traced solve time.

    Self time is a span's duration minus the durations of its direct
    children; calls in one thread nest, so children never overlap.
    """
    nid, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    self_t = dur - child
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    self_by = np.bincount(nid, weights=self_t, minlength=k)
    idx = {n: i for i, n in enumerate(names)}
    out: dict[str, float] = {}
    for name in names[1:]:
        out[f"{name}.calls"] = calls[idx[name]] / rounds
        out[f"{name}.self_s"] = self_by[idx[name]] / rounds

    ma, pf = idx["rate.max_attempts"], idx["rate.protocol_fidelity"]
    is_ma = nid == ma
    evals = int(np.sum((nid == pf) & has_parent
                       & (nid[np.maximum(parent, 0)] == ma)))
    n_ma = int(is_ma.sum())
    out["rate.max_attempts.evals_per_call"] = evals / n_ma if n_ma else 0.0
    out["rate.max_attempts.cap_reached"] = float(spans["value"][is_ma].sum()) / rounds
    tf = nid == idx["device.transfer_fidelity"]
    out["device.transfer_fidelity.rejected"] = float(spans["raised"][tf].sum()) / rounds
    st = nid == idx["montecarlo.simulate_trial"]
    attempts = float(spans["value"][st].sum())
    out["montecarlo.attempts"] = attempts / rounds
    st_self = self_by[idx["montecarlo.simulate_trial"]]
    out["montecarlo.attempts_per_s"] = attempts / st_self if st_self > 0 else 0.0

    solve = float(dur[nid == 0].sum())
    for layer in LAYERS:
        share = sum(self_by[i] for n, i in idx.items() if n.startswith(layer + "."))
        out[f"share.{layer}"] = share / solve if solve > 0 else 0.0
    out["share.bench"] = self_by[0] / solve if solve > 0 else 0.0
    return {k: float(v) for k, v in out.items()}


def metric_units() -> dict[str, str]:
    """Unit of every per-layer metric that summarize() reports."""
    units: dict[str, str] = {}
    for mod, qual in TRACED:
        units[f"{mod}.{qual}.calls"] = "count"
        units[f"{mod}.{qual}.self_s"] = "s"
    units.update({
        "rate.max_attempts.evals_per_call": "count",
        "rate.max_attempts.cap_reached": "count",
        "device.transfer_fidelity.rejected": "count",
        "montecarlo.attempts": "count",
        "montecarlo.attempts_per_s": "1/s",
        "trace.overhead_s": "s",
    })
    for layer in LAYERS + ("bench",):
        units[f"share.{layer}"] = "fraction"
    return units
