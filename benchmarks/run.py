"""polspin benchmark: one workload, one run, one JSON result line.

  python3 benchmarks/run.py --workload rate-curves --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; polspin is imported from ./src. The
workload runs in a fresh single-threaded worker process. With --trace 0 the
result holds the end-to-end metrics, at the reference host speed that
worker.py describes; set-up time is the median over eight fresh processes,
four before the workload and four after. With --trace 1 it holds the per-layer metrics of a separate traced run.
The last line of standard output is
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and a fuller run record is written to --record (default
.bench_out/<workload>-seed<seed>-trace<t>.json).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("device-maps", "device-points", "rate-curves", "mc-low-loss", "mc-high-loss")
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s"}
SETUP_SAMPLES = 4  # fresh set-up probes before the workload and as many after
TIME_LIMIT_S = 170.0


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Run the worker to completion and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=_env(),
        stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="path of the JSON run record")
    args = ap.parse_args()
    if not (ROOT / "src" / "polspin" / "__init__.py").is_file():
        print(f"no polspin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    setups: list[dict] = []
    try:
        if args.trace == 0:
            _worker(["--setup-only"], deadline)  # warm the bytecode and file caches
            setups = [_worker(["--setup-only"], deadline) for _ in range(SETUP_SAMPLES)]
        res = _worker(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--out-dir", str(out_dir)], deadline)
        if args.trace == 0:
            # probes on both sides of the workload, so the median spans the run
            setups += [_worker(["--setup-only"], deadline) for _ in range(SETUP_SAMPLES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    if args.trace == 0:
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups),
                  "peak_rss_mb": res["peak_rss_mb"], "ops_per_s": res["ops_per_s"]}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    else:
        sys.path.insert(0, str(HERE))
        from tracing import metric_units

        units = metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["per_layer"].items()}
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    line = {
        "correct": not res["problems"],
        "attempted": res["attempted_per_round"] * res["rounds"],
        "failed": res["failed_per_round"] * res["rounds"],
        "metrics": metrics,
    }
    record = {
        **line,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": res["rounds"], "timed_rounds": res["timed_rounds"],
        "round_s": res["round_s"], "round_ops": res["round_ops"],
        "round_cal_s": res["round_cal_s"], "ref_cal_s": res["ref_cal_s"],
        "wall_ops_per_s": res.get("wall_ops_per_s"),
        "attempted_per_round": res["attempted_per_round"],
        "failed_per_round": res["failed_per_round"], "problems": res["problems"],
        "setup_samples": setups, "detail": res["workload"],
        "nproc": len(os.sched_getaffinity(0)), "versions": res["versions"],
        "git_commit": _git_commit(),
    }
    record_path = Path(args.record) if args.record else (
        out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
