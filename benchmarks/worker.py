"""Runs one workload in this (fresh, single-threaded) process and prints one
JSON line with its measurements. Started by run.py; not meant to be run by
hand.

  worker.py --setup-only                 time import + config resolution
  worker.py --workload W --seed N --seconds S --trace 0|1 --out-dir D

Untraced: one warm-up round, then timed rounds until S seconds have passed.
Traced: a warm-up round, untraced rounds for S/2 seconds, then traced rounds
for S/2 seconds; the span file is written once, at the end.

Times are reported at a reference host speed. The single-thread speed of the
shared host this benchmark was written on moved by over 50% between sets of
runs 20 minutes apart, and by 30-45% within a minute, for all code alike.
So after each round, and after each set-up, a fixed calibration kernel that
shares no code with polspin is timed, and every time t is reported as
t * REF_CAL_S / (the kernel's time then). Raw wall-clock figures go to the
run record too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import resource
import statistics
import time
from pathlib import Path


# the calibration kernel's typical time on the host the benchmark was
# written on (2-core Xeon at 2.1 GHz), so reported figures read as seconds there
REF_CAL_S = 2.0e-3
ROUND_CAL_SHARE = 0.05  # calibration time after a round, as a share of the round
SETUP_CAL_S = 0.04  # calibration time after a set-up


def _calibrate() -> float:
    """Time a fixed mix of interpreter and small-numpy work, the two kinds of
    work polspin does."""
    import numpy as np

    t = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i
    a = np.arange(64.0)
    for _ in range(200):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t


def _host_speed(spend: float) -> float:
    """Median calibration time over repeats lasting about `spend` seconds."""
    c = [_calibrate()]
    while sum(c) < spend:
        c.append(_calibrate())
    return statistics.median(c)


def _setup() -> float:
    """Time `import polspin` (numpy included) plus config resolution. Nothing
    else may import numpy or polspin before this runs."""
    t0 = time.perf_counter()
    from polspin import config

    config.load_config()
    return time.perf_counter() - t0


def _timed_rounds(wl, first: int, seconds: float, tracer=None):
    """Run whole rounds until `seconds` have passed; return each round's time,
    the operations it did and the calibration time measured right after it."""
    times: list[float] = []
    ops: list[float] = []
    cal: list[float] = []
    r = first
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        with tracer.round() if tracer else contextlib.nullcontext():
            t = time.perf_counter()
            out = wl.round(r)
            times.append(time.perf_counter() - t)
        cal.append(_host_speed(ROUND_CAL_SHARE * times[-1]))
        ops.append(wl.round_ops(out))
        wl.observe(r, out)
        r += 1
    return times, ops, cal


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", default=".bench_out")
    args = ap.parse_args()
    setup_s = _setup()
    if args.setup_only:
        cal = _host_speed(SETUP_CAL_S)
        print(json.dumps({"setup_s": setup_s * REF_CAL_S / cal,
                          "wall_setup_s": setup_s, "cal_s": cal}))
        return

    import numpy as np

    import polspin
    import tracing
    import workloads

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    wl.observe(0, wl.round(0))  # warm-up round; its outputs are checked too
    result = {}
    if args.trace == 0:
        times, ops, cal = _timed_rounds(wl, 1, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # the median round's rate: a burst of interference that slows a few
        # rounds does not move it, as it would move total work / total time
        result["ops_per_s"] = statistics.median(
            n / t * c / REF_CAL_S for n, t, c in zip(ops, times, cal))
        result["wall_ops_per_s"] = statistics.median(n / t for n, t in zip(ops, times))
    else:
        plain, ops, cal = _timed_rounds(wl, 1, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = True
        traced, traced_ops, traced_cal = _timed_rounds(wl, 1 + len(plain), args.seconds / 2,
                                                       tracer)
        tracer.enabled = False
        tracer.uninstall()
        per_layer = tracing.summarize(tracer.names, tracer.arrays(), len(traced))

        def scaled(ts, cs):
            return statistics.median(t * REF_CAL_S / c for t, c in zip(ts, cs))

        per_layer["trace.overhead_s"] = scaled(traced, traced_cal) - scaled(plain, cal)
        tracer.write(str(out_dir / f"spans-{args.workload}.npz"))
        result["per_layer"] = per_layer
        times, ops, cal = plain + traced, ops + traced_ops, cal + traced_cal
    wl.verdict()
    result.update({
        "rounds": wl.rounds_seen,
        "timed_rounds": len(times),
        "round_s": times,
        "round_ops": ops,
        "round_cal_s": cal,
        "ref_cal_s": REF_CAL_S,
        "attempted_per_round": wl.attempted_per_round,
        "failed_per_round": wl.failed_per_round(),
        "problems": wl.problems,
        "workload": wl.describe(),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "polspin": polspin.__version__},
    })
    print(json.dumps(result, default=float))


if __name__ == "__main__":
    main()
